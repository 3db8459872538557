//! Pins the instruction stream of [`TraceGenerator`] against a frozen copy
//! of the generator as it was before the dependency distance became a table
//! lookup (`-ln(u) * mean` per instruction). Every profile the crate ships,
//! a trace replay, several seeds and every core of 1-, 2- and 4-core runs
//! must give the same `Instr`s, in the same order, as the copy.

use lnuca_types::Addr;
use lnuca_workloads::generator::{
    COLD_BASE, HOT_BASE, SHARED_BASE, STREAM_BASE, TRACE_BLOCK_BYTES, WARM_BASE,
};
use lnuca_workloads::trace::{self, TraceRecord};
use lnuca_workloads::{
    suites, AccessPattern, Instr, InstrKind, TraceData, TraceGenerator, TraceReplay,
    WorkloadProfile,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Asserts that `for_core(profile, seed, core, cores)` and the frozen copy
/// give the same first `n` instructions.
fn assert_same_stream(profile: &WorkloadProfile, seed: u64, core: usize, cores: usize, n: usize) {
    let new = TraceGenerator::for_core(profile.clone(), seed, core, cores).take(n);
    let old = FrozenGenerator::for_core(profile.clone(), seed, core, cores).take(n);
    for (i, (a, b)) in new.zip(old).enumerate() {
        assert_eq!(
            a, b,
            "{} seed {seed} core {core}/{cores}: instruction {i} differs",
            profile.name
        );
    }
}

const CORE_COUNTS: [usize; 3] = [1, 2, 4];

#[test]
fn every_extended_profile_matches_the_frozen_stream_on_every_core() {
    for profile in suites::extended() {
        for seed in [1, 7, 20_090_420] {
            for cores in CORE_COUNTS {
                for core in 0..cores {
                    assert_same_stream(&profile, seed, core, cores, 3_000);
                }
            }
        }
    }
}

#[test]
fn a_trace_replay_matches_the_frozen_stream() {
    let records: Vec<TraceRecord> = (0..700u64)
        .map(|i| TraceRecord {
            addr: 0x8000 + (i * 37) % 0x4000,
            write: i % 4 == 0,
            pc: 0x40_0000 + i % 5,
        })
        .collect();
    let name = format!("lnuca-generator-stream-{}.lnt", std::process::id());
    let path = std::env::temp_dir().join(name);
    let path = path.to_str().expect("temp path is utf-8").to_owned();
    trace::write_file(&path, &records).expect("trace writes");
    let profile = trace::trace_profile(&path);
    for seed in [1, 7, 20_090_420] {
        for cores in CORE_COUNTS {
            for core in 0..cores {
                assert_same_stream(&profile, seed, core, cores, 3_000);
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #[test]
    fn random_seeds_and_cores_match_the_frozen_stream(
        seed in any::<u64>(),
        index in 0usize..29,
        cores in prop::sample::select(CORE_COUNTS.to_vec()),
        core_pick in any::<u64>(),
        n in 100usize..4_000,
    ) {
        let profiles = suites::extended();
        prop_assert_eq!(profiles.len(), 29);
        let core = (core_pick % cores as u64) as usize;
        assert_same_stream(&profiles[index], seed, core, cores, n);
    }
}

// ---------------------------------------------------------------------------
// The frozen copy. Do not edit: it is the reference the stream is pinned to.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct FrozenGenerator {
    profile: WorkloadProfile,
    rng: SmallRng,
    last_addr: u64,
    stream_cursor: u64,
    chase_cursor: u64,
    branch_directions: Vec<bool>,
    replay: Option<TraceReplay>,
    core_id: u64,
    cores: u64,
    shared_write_cursor: u64,
    shared_read_cursor: u64,
    generated: u64,
}

impl FrozenGenerator {
    fn for_core(profile: WorkloadProfile, seed: u64, core_id: usize, cores: usize) -> Self {
        assert!(cores > 0, "a CMP run has at least one core");
        assert!(core_id < cores, "core {core_id} out of range for {cores} cores");
        profile
            .validate()
            .expect("trace generator requires a valid workload profile");
        let perturb = (core_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_CAFE_F00D_u64 ^ perturb);
        let branch_directions = (0..profile.static_branches)
            .map(|_| rng.gen_bool(0.5))
            .collect();
        let replay = match profile.pattern {
            AccessPattern::Trace => {
                let path = profile
                    .trace_path
                    .as_deref()
                    .expect("validation couples pattern `trace` to a trace_path");
                let data = TraceData::load(path)
                    .unwrap_or_else(|e| panic!("cannot replay trace {path:?}: {e}"));
                Some(TraceReplay::new(data))
            }
            _ => None,
        };
        FrozenGenerator {
            last_addr: HOT_BASE,
            stream_cursor: 0,
            chase_cursor: 0,
            branch_directions,
            replay,
            core_id: core_id as u64,
            cores: cores as u64,
            shared_write_cursor: 0,
            shared_read_cursor: 0,
            profile,
            rng,
            generated: 0,
        }
    }

    fn active_pattern(&self) -> AccessPattern {
        match self.profile.pattern {
            AccessPattern::PhaseMix => {
                const ROTATION: [AccessPattern; 4] = [
                    AccessPattern::Regions,
                    AccessPattern::Streaming,
                    AccessPattern::PointerChase,
                    AccessPattern::Gups,
                ];
                let phase = self.generated / self.profile.phase_period;
                ROTATION[(phase % 4) as usize]
            }
            pattern => pattern,
        }
    }

    fn chase_step(cursor: u64, n: u64) -> u64 {
        let mask = n.next_power_of_two() - 1;
        let mut x = cursor;
        loop {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407)
                & mask;
            if x < n {
                return x;
            }
        }
    }

    fn next_memory_addr(&mut self, is_store: bool) -> Addr {
        let p = &self.profile;
        if self.rng.gen_bool(p.spatial_stride_prob) {
            self.last_addr += 8;
            return Addr(self.last_addr);
        }
        let addr = match self.active_pattern() {
            AccessPattern::Regions => self.next_regions_block() * TRACE_BLOCK_BYTES,
            AccessPattern::PointerChase => self.next_chase_block() * TRACE_BLOCK_BYTES,
            AccessPattern::Streaming => self.next_streaming_block() * TRACE_BLOCK_BYTES,
            AccessPattern::Gups => self.next_gups_block() * TRACE_BLOCK_BYTES,
            AccessPattern::ProducerConsumer => {
                self.next_producer_consumer_block(is_store) * TRACE_BLOCK_BYTES
            }
            AccessPattern::Migratory => self.next_migratory_block() * TRACE_BLOCK_BYTES,
            AccessPattern::FalseSharing => self.next_false_sharing_addr(),
            AccessPattern::PhaseMix => unreachable!("active_pattern resolves the rotation"),
            AccessPattern::Trace => {
                unreachable!("trace profiles take the replay path, never the synthetic one")
            }
        };
        self.last_addr = addr;
        Addr(self.last_addr)
    }

    fn next_regions_block(&mut self) -> u64 {
        let p = &self.profile;
        let region = self.rng.gen::<f64>();
        if region < p.hot_prob {
            HOT_BASE / TRACE_BLOCK_BYTES + self.rng.gen_range(0..p.hot_blocks)
        } else if region < p.hot_prob + p.warm_prob {
            WARM_BASE / TRACE_BLOCK_BYTES + self.rng.gen_range(0..p.warm_blocks)
        } else if region < p.hot_prob + p.warm_prob + p.cold_prob {
            COLD_BASE / TRACE_BLOCK_BYTES + self.rng.gen_range(0..p.cold_blocks)
        } else {
            self.stream_cursor = (self.stream_cursor + 1) % p.stream_blocks;
            STREAM_BASE / TRACE_BLOCK_BYTES + self.stream_cursor
        }
    }

    fn next_chase_block(&mut self) -> u64 {
        let p = &self.profile;
        if self.rng.gen_bool(p.hot_prob) {
            return HOT_BASE / TRACE_BLOCK_BYTES + self.rng.gen_range(0..p.hot_blocks);
        }
        self.chase_cursor = Self::chase_step(self.chase_cursor, p.cold_blocks);
        COLD_BASE / TRACE_BLOCK_BYTES + self.chase_cursor
    }

    fn next_streaming_block(&mut self) -> u64 {
        let p = &self.profile;
        if self.rng.gen_bool(p.hot_prob) {
            return HOT_BASE / TRACE_BLOCK_BYTES + self.rng.gen_range(0..p.hot_blocks);
        }
        self.stream_cursor = (self.stream_cursor + p.stream_stride_blocks) % p.stream_blocks;
        STREAM_BASE / TRACE_BLOCK_BYTES + self.stream_cursor
    }

    fn next_gups_block(&mut self) -> u64 {
        let p = &self.profile;
        let total = p.hot_blocks + p.warm_blocks + p.cold_blocks + p.stream_blocks;
        let slot = self.rng.gen_range(0..total);
        if slot < p.hot_blocks {
            HOT_BASE / TRACE_BLOCK_BYTES + slot
        } else if slot < p.hot_blocks + p.warm_blocks {
            WARM_BASE / TRACE_BLOCK_BYTES + (slot - p.hot_blocks)
        } else if slot < p.hot_blocks + p.warm_blocks + p.cold_blocks {
            COLD_BASE / TRACE_BLOCK_BYTES + (slot - p.hot_blocks - p.warm_blocks)
        } else {
            STREAM_BASE / TRACE_BLOCK_BYTES + (slot - p.hot_blocks - p.warm_blocks - p.cold_blocks)
        }
    }

    fn next_producer_consumer_block(&mut self, is_store: bool) -> u64 {
        let p = &self.profile;
        if self.rng.gen_bool(p.hot_prob) {
            return HOT_BASE / TRACE_BLOCK_BYTES + self.rng.gen_range(0..p.hot_blocks);
        }
        let window = (p.shared_blocks / self.cores).max(1);
        if is_store {
            let stage = self.core_id;
            self.shared_write_cursor = (self.shared_write_cursor + 1) % window;
            SHARED_BASE / TRACE_BLOCK_BYTES + stage * window + self.shared_write_cursor
        } else {
            let stage = (self.core_id + self.cores - 1) % self.cores;
            self.shared_read_cursor = (self.shared_read_cursor + 1) % window;
            SHARED_BASE / TRACE_BLOCK_BYTES + stage * window + self.shared_read_cursor
        }
    }

    fn next_migratory_block(&mut self) -> u64 {
        let p = &self.profile;
        if self.rng.gen_bool(p.hot_prob) {
            return HOT_BASE / TRACE_BLOCK_BYTES + self.rng.gen_range(0..p.hot_blocks);
        }
        let partition = (p.shared_blocks / self.cores).max(1);
        let stage = (self.generated / p.phase_period + self.core_id) % self.cores;
        SHARED_BASE / TRACE_BLOCK_BYTES + stage * partition + self.rng.gen_range(0..partition)
    }

    fn next_false_sharing_addr(&mut self) -> u64 {
        let p = &self.profile;
        if self.rng.gen_bool(p.hot_prob) {
            let block = HOT_BASE / TRACE_BLOCK_BYTES + self.rng.gen_range(0..p.hot_blocks);
            return block * TRACE_BLOCK_BYTES;
        }
        let line = self.rng.gen_range(0..p.shared_blocks);
        let word = self.core_id % (TRACE_BLOCK_BYTES / 8);
        (SHARED_BASE / TRACE_BLOCK_BYTES + line) * TRACE_BLOCK_BYTES + word * 8
    }

    fn next_dep_distance(&mut self) -> u32 {
        let mean = self.profile.mean_dep_distance;
        let u: f64 = self.rng.gen_range(1e-9..1.0);
        let d = (-u.ln() * mean).ceil();
        d.clamp(1.0, 64.0) as u32
    }

    fn next_branch(&mut self) -> InstrKind {
        let pc = self.rng.gen_range(0..self.profile.static_branches);
        let bias = self.branch_directions[pc as usize];
        let follows_bias = self.rng.gen_bool(self.profile.branch_bias);
        InstrKind::Branch {
            pc,
            taken: if follows_bias { bias } else { !bias },
        }
    }

    fn next_replay_instr(&mut self) -> Instr {
        let memory_cut = self.profile.load_fraction + self.profile.store_fraction;
        let branch_cut = memory_cut + self.profile.branch_fraction;
        let fp_fraction = self.profile.fp_fraction;
        let class = self.rng.gen::<f64>();
        if class < memory_cut {
            let record = self
                .replay
                .as_mut()
                .expect("replay instructions only occur with a loaded trace")
                .next_record();
            Instr {
                kind: if record.write {
                    InstrKind::Store
                } else {
                    InstrKind::Load
                },
                addr: Some(Addr(record.addr)),
                dep_distance: self.next_dep_distance(),
            }
        } else if class < branch_cut {
            Instr {
                kind: self.next_branch(),
                addr: None,
                dep_distance: self.next_dep_distance(),
            }
        } else {
            let kind = if self.rng.gen_bool(fp_fraction) {
                InstrKind::FpAlu
            } else {
                InstrKind::IntAlu
            };
            Instr {
                kind,
                addr: None,
                dep_distance: self.next_dep_distance(),
            }
        }
    }
}

impl Iterator for FrozenGenerator {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        if self.replay.is_some() {
            let instr = self.next_replay_instr();
            self.generated += 1;
            return Some(instr);
        }
        let p = &self.profile;
        let class = self.rng.gen::<f64>();
        let load_cut = p.load_fraction;
        let store_cut = load_cut + p.store_fraction;
        let branch_cut = store_cut + p.branch_fraction;
        let fp_fraction = p.fp_fraction;

        let instr = if class < load_cut {
            Instr {
                kind: InstrKind::Load,
                addr: Some(self.next_memory_addr(false)),
                dep_distance: self.next_dep_distance(),
            }
        } else if class < store_cut {
            Instr {
                kind: InstrKind::Store,
                addr: Some(self.next_memory_addr(true)),
                dep_distance: self.next_dep_distance(),
            }
        } else if class < branch_cut {
            Instr {
                kind: self.next_branch(),
                addr: None,
                dep_distance: self.next_dep_distance(),
            }
        } else {
            let kind = if self.rng.gen_bool(fp_fraction) {
                InstrKind::FpAlu
            } else {
                InstrKind::IntAlu
            };
            Instr {
                kind,
                addr: None,
                dep_distance: self.next_dep_distance(),
            }
        };
        self.generated += 1;
        Some(instr)
    }
}
