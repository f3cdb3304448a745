//! National-scale streaming synthesis: the world's regulatory record —
//! per-hex NBM claims, challenge waves, corrections, the release-removal
//! schedule, registrations — produced **without ever materialising the
//! fabric**.
//!
//! [`SynthUs::generate`](crate::SynthUs) holds every BSL resident: ~115M
//! locations at the national scale, far past any sensible budget. This module
//! runs the same generators shard-by-shard instead:
//!
//! * The fabric is drained once through [`FabricEmitter`] into a [`HexTable`]
//!   — per-hex BSL counts and state tallies, the only fabric facts any
//!   downstream stage consults (it implements [`bdc::FabricView`], so label
//!   and feature construction run unchanged). Individual BSLs can still be
//!   resolved on demand by regenerating their town's shard from its
//!   `(seed, stage, shard)` RNG stream.
//! * Providers are processed one at a time in provider-id order — exactly the
//!   `BTreeMap` order the materialised path iterates — and each provider's
//!   claims live only for the duration of its own pass. The pass derives
//!   everything the pipeline needs downstream: challenge waves, corrections,
//!   the [`RemovalSchedule`], per-hex claim aggregates, served-hex sets and
//!   distinct-location counts.
//! * Every collection the orchestrator holds is accounted against a shared
//!   [`ResidencyMeter`]; each stage's peak is checked against
//!   [`SynthConfig::max_resident_entries`] and the run fails loudly on the
//!   first stage that exceeds the budget.
//!
//! Determinism contract: every artefact this module produces is bit-identical
//! to the corresponding artefact of the materialised world — same RNG streams
//! per `(seed, stage, shard)`, same iteration orders, same float accumulation
//! orders. `tests/streaming_world.rs` pins the equivalence on small worlds.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use asnmap::{FrnRegistration, RegistrationSource, WhoisDb};
use bdc::source::{end_stage, SourceMeta, WorldSource};
use bdc::stream::{drain_shards, map_shards, speed_pair_wins, ResidencyMeter};
use bdc::{
    Bsl, Challenge, ClaimChange, ClaimChangeKind, DayStamp, FabricView, HexClaim, LocationId,
    NbmRelease, ProviderId, ReleaseVersion, Technology,
};
use hexgrid::HexCell;
use speedtest::{MlabTest, OoklaTileRecord};

use crate::activity_gen::{
    later_challenge_chunk, later_wave_shard_count, provider_challenges, provider_corrections,
    LATER_WAVE_CHUNK,
};
use crate::config::SynthConfig;
use crate::fabric_gen::{generate_towns, town_bsls, town_offsets, FabricEmitter, Town};
use crate::fast_hash::{FastMap, FastSet};
use crate::providers_gen::{
    compute_claims_observed, generate_providers, ClaimScanner, ProviderProfile, TownBsls,
};
use crate::registration_gen::{generate_registrations, RegistrationData};
use crate::release_stream::RemovalSchedule;
use crate::shard::GenMode;

// The stage/report rows and the budget-enforcing `end_stage` now live in
// `bdc::source` (they are shared by every `WorldSource`); re-exported here so
// `synth::{StreamStage, StreamReport}` keeps working.
pub use bdc::source::{StreamReport, StreamStage};

/// The bounded-memory stand-in for a materialised [`bdc::Fabric`]: per-hex
/// BSL counts and state tallies over the *occupied* hexes (ascending hex
/// order), plus enough structure to resolve any individual `LocationId` back
/// to its hex by regenerating the owning town's shard.
///
/// Size: two entries per occupied hex (count + state tally) instead of one
/// entry per BSL — roughly `n_bsls / bsls_per_hex` versus `n_bsls`.
pub struct HexTable {
    config: SynthConfig,
    towns: Vec<Town>,
    offsets: Vec<u64>,
    total_locations: u64,
    /// `(hex, bsl_count, truly_served_by_any_provider)`, ascending by hex —
    /// exactly the shard table [`crate::speedtest_gen::OoklaEmitter`] expects.
    hexes: Vec<(HexCell, u32, bool)>,
    /// Interned state codes; indices are stable for the table's lifetime.
    state_names: Vec<String>,
    /// CSR offsets into `state_items`, one extra entry at the end.
    state_offsets: Vec<u32>,
    /// `(state_index, bsl_count)` runs per hex.
    state_items: Vec<(u16, u32)>,
    /// Location→hex resolutions captured during the regulatory pass (every
    /// challenged and scheduled-removal location), so labelling never has to
    /// regenerate a town. Unknown locations fall back to regeneration.
    loc_hex: HashMap<LocationId, HexCell>,
}

impl HexTable {
    /// Drain the fabric stream once and fold it into the table. `towns` must
    /// be the town list the fabric is generated from.
    fn build(config: &SynthConfig, towns: Vec<Town>, meter: &ResidencyMeter) -> Self {
        let offsets = town_offsets(&towns);
        let mut accum: HashMap<HexCell, (u32, Vec<(u16, u32)>)> = HashMap::new();
        let mut state_index: BTreeMap<String, u16> = BTreeMap::new();
        let mut state_names: Vec<String> = Vec::new();
        let mut metered = 0usize;
        {
            let emitter = FabricEmitter::new(config, &towns);
            drain_shards(&emitter, meter, |_, shard| {
                for bsl in &shard {
                    let si = match state_index.get(bsl.state.as_str()) {
                        Some(&i) => i,
                        None => {
                            let i = state_names.len() as u16;
                            state_index.insert(bsl.state.clone(), i);
                            state_names.push(bsl.state.clone());
                            i
                        }
                    };
                    let slot = accum.entry(bsl.hex).or_insert_with(|| (0, Vec::new()));
                    slot.0 += 1;
                    match slot.1.iter_mut().find(|(s, _)| *s == si) {
                        Some((_, c)) => *c += 1,
                        None => slot.1.push((si, 1)),
                    }
                }
                // Two entries per occupied hex: the count row and (almost
                // always exactly) one state run.
                let now = 2 * accum.len();
                meter.acquire(now - metered);
                metered = now;
            });
        }
        let total_locations = offsets
            .last()
            .map(|&o| o + towns.last().map(|t| t.n_bsls as u64).unwrap_or(0))
            .unwrap_or(0);

        let mut keys: Vec<HexCell> = accum.keys().copied().collect();
        keys.sort_unstable();
        let mut hexes = Vec::with_capacity(keys.len());
        let mut state_offsets = Vec::with_capacity(keys.len() + 1);
        let mut state_items = Vec::new();
        for hex in keys {
            let (count, mut states) = accum.remove(&hex).expect("key came from the map");
            states.sort_unstable();
            state_offsets.push(state_items.len() as u32);
            state_items.extend(states);
            hexes.push((hex, count, false));
        }
        state_offsets.push(state_items.len() as u32);
        // Swap the accumulator's metering for the final arrays' (towns and
        // offsets are pinned by the caller when the town stage runs).
        meter.release(metered);
        meter.pin(hexes.len() + state_items.len());

        Self {
            config: *config,
            towns,
            offsets,
            total_locations,
            hexes,
            state_names,
            state_offsets,
            state_items,
            loc_hex: HashMap::new(),
        }
    }

    /// The towns backing the fabric stream.
    pub fn towns(&self) -> &[Town] {
        &self.towns
    }

    /// Per-town location-id prefix sums (town `i`'s first id is
    /// `offsets[i] + 1`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Total BSLs in the (never-materialised) fabric.
    pub fn total_locations(&self) -> u64 {
        self.total_locations
    }

    /// Occupied hexes with BSL counts and served flags, ascending by hex —
    /// the Ookla emitter's shard table.
    pub fn entries(&self) -> &[(HexCell, u32, bool)] {
        &self.hexes
    }

    /// Number of occupied hexes.
    pub fn occupied_hexes(&self) -> usize {
        self.hexes.len()
    }

    /// Interned index of a state code, if any BSL carried it.
    fn state_id(&self, state: &str) -> Option<u16> {
        self.state_names
            .iter()
            .position(|s| s == state)
            .map(|i| i as u16)
    }

    /// The state code behind an interned index.
    pub fn state_name(&self, index: u16) -> &str {
        &self.state_names[index as usize]
    }

    fn hex_index(&self, hex: &HexCell) -> Option<usize> {
        self.hexes.binary_search_by(|e| e.0.cmp(hex)).ok()
    }

    /// Mark every hex in `served` as genuinely served by some provider.
    fn set_served(&mut self, served: impl IntoIterator<Item = HexCell>) {
        for hex in served {
            if let Ok(i) = self.hexes.binary_search_by(|e| e.0.cmp(&hex)) {
                self.hexes[i].2 = true;
            }
        }
    }

    /// Record known location→hex resolutions (metered by the caller).
    fn extend_loc_hex(&mut self, resolved: HashMap<LocationId, HexCell>) {
        if self.loc_hex.is_empty() {
            self.loc_hex = resolved;
        } else {
            self.loc_hex.extend(resolved);
        }
    }
}

impl FabricView for HexTable {
    fn hex_of(&self, id: LocationId) -> Option<HexCell> {
        if let Some(hex) = self.loc_hex.get(&id) {
            return Some(*hex);
        }
        if id.0 == 0 || id.0 > self.total_locations {
            return None;
        }
        // Fallback: regenerate the owning town's shard. Rare — the regulatory
        // pass pre-resolves every location labelling will ask about.
        let town_index = self.offsets.partition_point(|&o| o < id.0) - 1;
        let town = &self.towns[town_index];
        let block = town_bsls(&self.config, town_index, town, self.offsets[town_index] + 1);
        block
            .get((id.0 - self.offsets[town_index] - 1) as usize)
            .map(|b| b.hex)
    }

    fn bsl_count_in_hex(&self, hex: &HexCell) -> usize {
        self.hex_index(hex)
            .map(|i| self.hexes[i].1 as usize)
            .unwrap_or(0)
    }

    fn hex_state_counts(&self, hex: &HexCell) -> BTreeMap<String, usize> {
        let Some(i) = self.hex_index(hex) else {
            return BTreeMap::new();
        };
        let lo = self.state_offsets[i] as usize;
        let hi = self.state_offsets[i + 1] as usize;
        self.state_items[lo..hi]
            .iter()
            .map(|&(s, c)| (self.state_names[s as usize].clone(), c as usize))
            .collect()
    }
}

/// [`TownBsls`] that regenerates town shards on demand, with a small LRU
/// cache: claim scans revisit the same neighbour towns across deployments and
/// consecutive footprint towns, so a few resident blocks absorb most repeat
/// visits. Cached entries are metered; the cache is capped in entries.
struct CachedTownBsls<'a> {
    config: &'a SynthConfig,
    towns: &'a [Town],
    offsets: &'a [u64],
    meter: &'a ResidencyMeter,
    cap: usize,
    cache: Mutex<TownCache>,
}

#[derive(Default)]
struct TownCache {
    tick: u64,
    resident: usize,
    regenerated: usize,
    blocks: HashMap<usize, (u64, Vec<Bsl>)>,
}

impl<'a> CachedTownBsls<'a> {
    fn new(
        config: &'a SynthConfig,
        towns: &'a [Town],
        offsets: &'a [u64],
        meter: &'a ResidencyMeter,
    ) -> Self {
        // Up to 64 resident town blocks (at least one): enough to cover a
        // footprint town plus every neighbour within claim reach many times
        // over, and a rounding error against any realistic budget.
        let cap = config.bsls_per_town.max(1) * 64;
        Self {
            config,
            towns,
            offsets,
            meter,
            cap,
            cache: Mutex::new(TownCache::default()),
        }
    }

    /// Town blocks regenerated so far (cache misses).
    fn regenerated(&self) -> usize {
        self.cache.lock().expect("town cache poisoned").regenerated
    }
}

impl TownBsls for CachedTownBsls<'_> {
    fn with_town(&self, town_index: usize, visit: &mut dyn FnMut(&[Bsl])) {
        let mut cache = self.cache.lock().expect("town cache poisoned");
        cache.tick += 1;
        let tick = cache.tick;
        if let Some((stamp, block)) = cache.blocks.get_mut(&town_index) {
            *stamp = tick;
            visit(block);
            return;
        }
        let block = town_bsls(
            self.config,
            town_index,
            &self.towns[town_index],
            self.offsets[town_index] + 1,
        );
        self.meter.acquire(block.len());
        cache.resident += block.len();
        cache.regenerated += 1;
        cache.blocks.insert(town_index, (tick, block));
        while cache.resident > self.cap && cache.blocks.len() > 1 {
            let oldest = *cache
                .blocks
                .iter()
                .filter(|(&i, _)| i != town_index)
                .min_by_key(|(_, (stamp, _))| *stamp)
                .expect("len > 1 so another block exists")
                .0;
            let (_, evicted) = cache.blocks.remove(&oldest).expect("key just found");
            cache.resident -= evicted.len();
            self.meter.release(evicted.len());
        }
        visit(&cache.blocks[&town_index].1);
    }
}

impl Drop for CachedTownBsls<'_> {
    fn drop(&mut self) {
        let cache = self.cache.get_mut().expect("town cache poisoned");
        self.meter.release(cache.resident);
        cache.resident = 0;
    }
}

/// Where the `regulatory_pass` stage's wall time goes, summed over
/// providers. Kept beside the stage report rather than in it: the report's
/// stage rows partition the run, and these are a split of one row.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegulatoryPhases {
    /// The claim scan with its per-claim observer fold, town-block
    /// regeneration included.
    pub claim_scan: Duration,
    /// Challenge generation and bookkeeping.
    pub challenges: Duration,
    /// Correction generation and bookkeeping.
    pub corrections: Duration,
    /// Distinct-location dedup plus the per-hex aggregate fold.
    pub fold: Duration,
    /// Town blocks the claim scan regenerated (misses of its block cache).
    pub town_blocks_regenerated: usize,
}

impl RegulatoryPhases {
    /// The four timed sub-phases, named, in pass order.
    pub fn walls(&self) -> [(&'static str, Duration); 4] {
        [
            ("claim_scan", self.claim_scan),
            ("challenges", self.challenges),
            ("corrections", self.corrections),
            ("fold", self.fold),
        ]
    }
}

/// The streaming counterpart of [`crate::SynthUs`]: everything the analysis
/// pipeline consumes, none of the per-BSL bulk. Produced by
/// [`StreamWorld::generate`] under a fixed residency budget.
pub struct StreamWorld {
    pub config: SynthConfig,
    pub profiles: Vec<ProviderProfile>,
    /// The bounded fabric view (also the Ookla emitter's shard table).
    pub hex_table: HexTable,
    /// Filing methodology text per provider (what `stage_methodology_collection`
    /// reads off filings in the materialised path).
    pub methodologies: BTreeMap<ProviderId, String>,
    /// First-wave challenges, provider order (claim order within a provider).
    pub challenges: Vec<Challenge>,
    /// The later challenge wave, chunked exactly like the materialised path.
    pub later_challenges: Vec<Challenge>,
    /// Cumulative non-archived removals across all minor releases, ascending
    /// claim-key order — bit-identical to draining the full release chain
    /// through `bdc::DiffChain` (the schedule only ever removes claims).
    pub removal_evidence: Vec<ClaimChange>,
    /// The initial NBM release: per-hex claims aggregated provider-by-provider
    /// during the regulatory pass, with no location-level records resident.
    pub initial_release: NbmRelease,
    /// Hexes each provider genuinely serves (MLab emitter input).
    pub served_hexes_by_provider: BTreeMap<ProviderId, BTreeSet<HexCell>>,
    /// FRN registrations, WHOIS side and ground-truth provider→ASN mapping.
    pub registration: RegistrationData,
    pub report: StreamReport,
    /// Sub-phase split of the report's `regulatory_pass` stage.
    pub regulatory_phases: RegulatoryPhases,
    meter: ResidencyMeter,
}

impl StreamWorld {
    /// Run streaming synthesis under `mode`'s worker budget. Fails if the
    /// config is invalid or any stage's peak residency exceeds
    /// [`SynthConfig::max_resident_entries`].
    pub fn generate(config: &SynthConfig, mode: GenMode) -> Result<Self, String> {
        config.validate()?;
        let workers = mode.worker_count();
        let budget = config.max_resident_entries;
        let meter = ResidencyMeter::new();
        let mut stages: Vec<StreamStage> = Vec::new();
        let t0 = Instant::now();

        // Towns: the only per-location-free global the generators need.
        let s = Instant::now();
        let towns = generate_towns(config, workers);
        meter.pin(towns.len() * 2); // town list + id prefix sums
        let n_towns = towns.len();
        end_stage(&mut stages, &meter, budget, "towns", s, n_towns)?;

        // One full drain of the fabric stream into the hex table.
        let s = Instant::now();
        let mut hex_table = HexTable::build(config, towns, &meter);
        end_stage(&mut stages, &meter, budget, "fabric_hex_table", s, n_towns)?;

        // Provider profiles (footprints, styles, methodologies).
        let s = Instant::now();
        let profiles = generate_providers(config, hex_table.towns(), workers);
        meter.pin(profiles.len());
        end_stage(&mut stages, &meter, budget, "providers", s, profiles.len())?;

        // The regulatory pass: one provider at a time, in provider-id order
        // (the BTreeMap order every materialised stage iterates). Claims and
        // their geometry exist only within a provider's own iteration.
        let s = Instant::now();
        let mut schedule = RemovalSchedule::new(config.n_minor_releases);
        let mut challenges: Vec<Challenge> = Vec::new();
        let mut hex_claims: Vec<HexClaim> = Vec::new();
        let mut served_all: FastSet<HexCell> = FastSet::default();
        let mut served_hexes_by_provider: BTreeMap<ProviderId, BTreeSet<HexCell>> = BTreeMap::new();
        let mut claims_count: BTreeMap<ProviderId, usize> = BTreeMap::new();
        let mut methodologies: BTreeMap<ProviderId, String> = BTreeMap::new();
        let mut pending_loc_hex: HashMap<LocationId, HexCell> = HashMap::new();
        let mut loc_hex_metered = 0usize;
        let mut sched_metered = 0usize;
        let mut phases = RegulatoryPhases::default();

        let mut order: Vec<usize> = (0..profiles.len()).collect();
        order.sort_by_key(|&i| profiles[i].provider.id);
        {
            let scanner = ClaimScanner::new(hex_table.towns());
            let town_blocks =
                CachedTownBsls::new(config, hex_table.towns(), hex_table.offsets(), &meter);
            for &pi in &order {
                let profile = &profiles[pi];
                let pid = profile.provider.id;
                methodologies.insert(pid, profile.methodology.text(&profile.provider.brand));
                meter.pin(2); // methodology + claims-count rows

                // Scan the provider's claims, folding geometry, per-hex claim
                // aggregates and served-hex sets in the observer so no second
                // pass over the claims is ever needed. `agg` is the
                // per-`(hex, technology)` release aggregate — best `(down, up)`
                // pair, low-latency flag, location count — the fold
                // `NbmRelease::from_records` runs, in scan order per key.
                let phase = Instant::now();
                let mut geo: Vec<(HexCell, u16)> = Vec::new();
                type Agg = (Option<(f64, f64)>, bool, u32);
                let mut agg: FastMap<(HexCell, Technology), Agg> = FastMap::default();
                let mut served_p: FastSet<HexCell> = FastSet::default();
                // Every claim from one scan town shares that town's state, so
                // the last interned id almost always answers.
                let mut state: Option<u16> = None;
                let claims = compute_claims_observed(
                    profile,
                    &scanner,
                    &town_blocks,
                    config,
                    &mut |claim, bsl| {
                        meter.acquire(2); // the claim row + its geometry row
                        let id = match state {
                            Some(id) if hex_table.state_name(id) == bsl.state => id,
                            _ => {
                                let id = hex_table
                                    .state_id(bsl.state.as_str())
                                    .expect("every BSL state was interned during the fabric drain");
                                state = Some(id);
                                id
                            }
                        };
                        geo.push((bsl.hex, id));
                        let before = agg.len();
                        {
                            let slot = agg
                                .entry((bsl.hex, claim.technology))
                                .or_insert((None, false, 0));
                            let candidate = (claim.max_down_mbps, claim.max_up_mbps);
                            let wins = match slot.0 {
                                None => true,
                                Some(best) => speed_pair_wins(candidate, best),
                            };
                            if wins {
                                slot.0 = Some(candidate);
                            }
                            slot.1 |= claim.low_latency;
                            slot.2 += 1;
                        }
                        if agg.len() > before {
                            meter.acquire(2);
                        }
                        if claim.truly_served {
                            if served_all.insert(bsl.hex) {
                                meter.pin(1);
                            }
                            if served_p.insert(bsl.hex) {
                                meter.pin(1);
                            }
                        }
                    },
                );
                let n_claims = claims.len();
                phases.claim_scan += phase.elapsed();

                // Challenges against this provider's claims, then corrections
                // for what survived unchallenged — both keyed by provider id,
                // so per-provider generation is the materialised generation.
                let phase = Instant::now();
                let provider_challs = provider_challenges(
                    config,
                    pid,
                    claims
                        .iter()
                        .zip(geo.iter())
                        .map(|(c, &(hex, state))| (c, hex, hex_table.state_name(state))),
                );
                meter.acquire(provider_challs.len() * 2); // kept below + key set
                let mut challenged: BTreeSet<(ProviderId, LocationId, Technology)> =
                    BTreeSet::new();
                for c in &provider_challs {
                    challenged.insert((c.provider, c.location, c.technology));
                    schedule.note_challenge(c);
                    pending_loc_hex.insert(c.location, c.hex);
                }
                phases.challenges += phase.elapsed();
                let phase = Instant::now();
                let corrections = provider_corrections(config, pid, &claims, &challenged);
                meter.acquire(corrections.len());
                meter.release(provider_challs.len()); // challenged set dropped
                drop(challenged);
                // Corrections are an in-order subsequence of the claims, so a
                // two-pointer walk recovers each corrected location's hex.
                let mut ci = 0usize;
                for (p, l, t, k) in &corrections {
                    schedule.note_correction(*p, *l, *t, *k);
                    while ci < n_claims
                        && (claims[ci].location != *l || claims[ci].technology != *t)
                    {
                        ci += 1;
                    }
                    assert!(ci < n_claims, "correction does not map back to a claim");
                    pending_loc_hex.insert(*l, geo[ci].0);
                }
                meter.release(corrections.len());
                drop(corrections);
                challenges.extend(provider_challs);
                phases.corrections += phase.elapsed();

                // Distinct claimed locations (what the provider's filing would
                // report): reuse the claims' storage, then let it all go.
                let phase = Instant::now();
                drop(geo);
                meter.release(n_claims);
                let mut locs: Vec<LocationId> = claims.into_iter().map(|c| c.location).collect();
                locs.sort_unstable();
                locs.dedup();
                claims_count.insert(pid, locs.len());
                drop(locs);
                meter.release(n_claims);

                // Fold the provider's per-hex aggregates into the global claim
                // table. `(provider, hex, tech)` keys order by provider first,
                // so appending each provider's aggregates sorted by
                // `(hex, tech)` in provider order reproduces the materialised
                // release's global group order.
                let agg_len = agg.len();
                let mut agg: Vec<((HexCell, Technology), Agg)> = agg.into_iter().collect();
                agg.sort_unstable_by_key(|&(key, _)| key);
                for ((hex, technology), (best, low_latency, locations)) in agg {
                    let (max_down_mbps, max_up_mbps) = best.unwrap_or((0.0, 0.0));
                    hex_claims.push(HexClaim {
                        provider: pid,
                        hex,
                        technology,
                        max_down_mbps,
                        max_up_mbps,
                        low_latency,
                        locations_claimed: locations as usize,
                        total_bsls_in_hex: hex_table.bsl_count_in_hex(&hex),
                    });
                    meter.pin(1);
                }
                meter.release(agg_len * 2);

                if !served_p.is_empty() {
                    served_hexes_by_provider.insert(pid, served_p.into_iter().collect());
                }

                // Meter the slow-growing global side tables.
                meter.pin(pending_loc_hex.len() - loc_hex_metered);
                loc_hex_metered = pending_loc_hex.len();
                meter.pin(schedule.len() - sched_metered);
                sched_metered = schedule.len();
                phases.fold += phase.elapsed();
            }
            phases.town_blocks_regenerated = town_blocks.regenerated();
        }
        end_stage(
            &mut stages,
            &meter,
            budget,
            "regulatory_pass",
            s,
            profiles.len(),
        )?;

        // The later challenge wave: fixed global chunks over the concatenated
        // first wave, one RNG stream per chunk — the materialised fan-out.
        let s = Instant::now();
        let chunks: Vec<&[Challenge]> = challenges.chunks(LATER_WAVE_CHUNK).collect();
        let later_challenges: Vec<Challenge> = map_shards(workers, &chunks, |i, chunk| {
            later_challenge_chunk(config, i, chunk)
        })
        .into_iter()
        .flatten()
        .collect();
        meter.pin(later_challenges.len());
        end_stage(
            &mut stages,
            &meter,
            budget,
            "later_challenges",
            s,
            later_wave_shard_count(challenges.len()),
        )?;

        // Release assembly: the removal schedule *is* the release chain's
        // cumulative diff (claims are only ever removed), and the streamed
        // per-hex aggregates *are* the initial release's public view.
        let s = Instant::now();
        let removal_evidence: Vec<ClaimChange> = schedule
            .keys()
            .map(|&(provider, location, technology)| ClaimChange {
                provider,
                location,
                technology,
                kind: ClaimChangeKind::Removed,
            })
            .collect();
        meter.pin(removal_evidence.len());
        meter.release(sched_metered);
        drop(schedule);
        let n_hex_claims = hex_claims.len();
        let initial_release = NbmRelease::from_parts(
            ReleaseVersion::initial(),
            DayStamp::initial_nbm_release(),
            Vec::new(),
            hex_claims,
        );
        meter.pin(n_hex_claims); // the claim index from_parts rebuilds
        end_stage(
            &mut stages,
            &meter,
            budget,
            "release_assembly",
            s,
            config.n_minor_releases + 1,
        )?;

        // Registrations, WHOIS and the ground-truth ASN mapping.
        let s = Instant::now();
        let registration = generate_registrations(config, &profiles, &claims_count, workers);
        meter.pin(registration.registrations.len());
        end_stage(
            &mut stages,
            &meter,
            budget,
            "registrations",
            s,
            profiles.len(),
        )?;

        meter.release(served_all.len());
        hex_table.set_served(served_all);
        hex_table.extend_loc_hex(pending_loc_hex);

        let report = StreamReport {
            stages,
            total_wall: t0.elapsed(),
            peak_resident_entries: meter.peak(),
            budget,
        };
        Ok(Self {
            config: *config,
            profiles,
            hex_table,
            methodologies,
            challenges,
            later_challenges,
            removal_evidence,
            initial_release,
            served_hexes_by_provider,
            registration,
            report,
            regulatory_phases: phases,
            meter,
        })
    }

    /// The shared residency meter, so downstream streaming stages keep
    /// accounting against the same budget.
    pub fn meter(&self) -> &ResidencyMeter {
        &self.meter
    }

    /// The configured residency budget, if any.
    pub fn budget(&self) -> Option<usize> {
        self.config.max_resident_entries
    }
}

/// The synthetic world is one [`WorldSource`] among others: the generic
/// pipeline runner in `redsus_core::streaming` consumes it purely through
/// this trait, and pure regeneration stays this type's private strategy.
impl WorldSource for StreamWorld {
    type OoklaItem = OoklaTileRecord;
    type MlabItem = MlabTest;
    type OoklaStream<'a> = crate::speedtest_gen::OoklaEmitter<'a>;
    type MlabStream<'a> = crate::speedtest_gen::MlabEmitter<'a>;

    fn meta(&self) -> SourceMeta {
        SourceMeta {
            name: "synth-stream",
            detail: format!(
                "seed {} · {} bsls · {} providers",
                self.config.seed, self.config.n_bsls, self.config.n_providers
            ),
            provider_count: self.profiles.len(),
            release_count: self.config.n_minor_releases + 1,
        }
    }

    fn meter(&self) -> &ResidencyMeter {
        StreamWorld::meter(self)
    }

    fn budget(&self) -> Option<usize> {
        StreamWorld::budget(self)
    }

    fn source_report(&self) -> &StreamReport {
        &self.report
    }

    fn fabric(&self) -> &dyn FabricView {
        &self.hex_table
    }

    fn initial_release(&self) -> &NbmRelease {
        &self.initial_release
    }

    fn removal_evidence(&self) -> &[ClaimChange] {
        &self.removal_evidence
    }

    fn challenges(&self) -> &[Challenge] {
        &self.challenges
    }

    fn methodologies(&self) -> &BTreeMap<ProviderId, String> {
        &self.methodologies
    }

    fn ookla_stream(&self) -> Self::OoklaStream<'_> {
        crate::speedtest_gen::OoklaEmitter::new(&self.config, self.hex_table.entries())
    }

    fn mlab_stream(&self) -> Self::MlabStream<'_> {
        // Ground-truth ASNs drive the *emitter* (the tests that exist in the
        // world); the runner's attribution stage independently uses whatever
        // the matcher recovered — exactly the materialised path's split.
        crate::speedtest_gen::MlabEmitter::new(
            &self.config,
            &self.registration.true_provider_asns,
            &self.served_hexes_by_provider,
        )
    }
}

impl RegistrationSource for StreamWorld {
    fn registrations(&self) -> &[FrnRegistration] {
        &self.registration.registrations
    }

    fn whois(&self) -> &WhoisDb {
        &self.registration.whois
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::SynthUs;

    fn stream_and_world(config: &SynthConfig) -> (StreamWorld, SynthUs) {
        let stream = StreamWorld::generate(config, GenMode::Sequential).expect("streamed synth");
        let world = SynthUs::generate(config);
        (stream, world)
    }

    #[test]
    fn hex_claims_match_materialised_release() {
        let config = SynthConfig::tiny(77);
        let (stream, world) = stream_and_world(&config);
        assert_eq!(
            stream.initial_release.hex_claims(),
            world.initial_release().hex_claims(),
            "streamed per-hex claims must be bit-identical to the materialised release"
        );
        assert_eq!(
            stream.initial_release.version,
            world.initial_release().version
        );
        assert_eq!(
            stream.initial_release.published,
            world.initial_release().published
        );
    }

    #[test]
    fn challenge_waves_match_materialised_world() {
        let config = SynthConfig::tiny(78);
        let (stream, world) = stream_and_world(&config);
        assert_eq!(stream.challenges, world.challenges);
        assert_eq!(stream.later_challenges, world.later_challenges);
    }

    #[test]
    fn removal_evidence_matches_release_diff_chain() {
        let config = SynthConfig::tiny(79);
        let (stream, world) = stream_and_world(&config);
        let emitter = world.release_emitter();
        let releases: Vec<_> = (0..emitter.n_releases())
            .map(|i| emitter.release(i))
            .collect();
        let mut chain = bdc::DiffChain::new(world.releases[0].version);
        for pair in releases.windows(2) {
            chain.extend_with(&pair[0], &pair[1], 4096, bdc::DiffMode::Sequential);
        }
        assert_eq!(stream.removal_evidence, chain.removal_evidence());
    }

    #[test]
    fn registrations_and_methodologies_match() {
        let config = SynthConfig::tiny(80);
        let (stream, world) = stream_and_world(&config);
        assert_eq!(stream.registration.registrations, world.registrations);
        assert_eq!(
            stream.registration.true_provider_asns,
            world.true_provider_asns
        );
        let world_methods: BTreeMap<ProviderId, String> = world
            .filings
            .iter()
            .map(|f| (f.provider, f.methodology.clone()))
            .collect();
        assert_eq!(stream.methodologies, world_methods);
    }

    #[test]
    fn hex_table_agrees_with_fabric() {
        let config = SynthConfig::tiny(81);
        let (stream, world) = stream_and_world(&config);
        for (hex, count, _) in stream.hex_table.entries().iter() {
            assert_eq!(world.fabric.bsl_count_in_hex(hex), *count as usize);
            assert_eq!(
                stream.hex_table.hex_state_counts(hex),
                world.fabric.hex_state_counts(hex)
            );
        }
        assert_eq!(
            stream.hex_table.total_locations(),
            world.fabric.len() as u64
        );
        // Location→hex resolution, through both the side map and the
        // regeneration fallback.
        for change in &stream.removal_evidence {
            assert_eq!(
                stream.hex_table.hex_of(change.location),
                world.fabric.hex_of(change.location)
            );
        }
        for id in [1u64, 17, stream.hex_table.total_locations()] {
            assert_eq!(
                stream.hex_table.hex_of(LocationId(id)),
                world.fabric.hex_of(LocationId(id)),
                "regenerated lookup for location {id}"
            );
        }
        assert_eq!(stream.hex_table.hex_of(LocationId(0)), None);
    }

    #[test]
    fn served_hexes_match_and_residency_is_reported() {
        let config = SynthConfig::tiny(82);
        let (stream, world) = stream_and_world(&config);
        // The Ookla emitter over the hex table must see the same shard table
        // the materialised generator builds from the fabric.
        let occupied: Vec<HexCell> = stream.hex_table.entries().iter().map(|e| e.0).collect();
        let mut from_fabric: Vec<HexCell> = world.fabric.hexes().copied().collect();
        from_fabric.sort_unstable();
        assert_eq!(occupied, from_fabric);
        assert!(stream.report.peak_resident_entries > 0);
        assert_eq!(
            stream.report.stages.len(),
            7,
            "every streaming stage reports"
        );
        assert!(stream
            .report
            .stages
            .iter()
            .all(|s| s.peak_resident_entries > 0));
    }

    #[test]
    fn over_budget_config_fails_loudly() {
        let mut config = SynthConfig::tiny(83);
        // A budget the fabric drain cannot possibly respect, but above the
        // validation floor so generation actually starts.
        config.max_resident_entries = Some(config.streaming_residency_floor());
        let err = StreamWorld::generate(&config, GenMode::Sequential);
        assert!(
            err.is_err(),
            "an impossible budget must fail, not silently succeed"
        );
        let msg = err.err().unwrap();
        assert!(
            msg.contains("exceeded the resident-entry budget"),
            "unexpected error: {msg}"
        );
    }
}
