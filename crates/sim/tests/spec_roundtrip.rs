//! Property test of the scenario serialization layer: any composed
//! [`HierarchySpec`] survives `spec → JSON → spec` **identically** — the
//! canonical document carries every field, the strict parser reads every
//! field back, and nothing is defaulted away silently.

use lnuca_core::LNucaConfig;
use lnuca_dnuca::DNucaConfig;
use lnuca_mem::CacheConfig;
use lnuca_sim::configs;
use lnuca_sim::scenario::{spec_from_value, spec_to_value};
use lnuca_sim::spec::{BackingSpec, HierarchySpec, IntermediateSpec};
use proptest::prelude::*;
use serde::json;

proptest! {
    #[test]
    fn any_composed_spec_round_trips_identically(
        levels in 2u8..7,
        tile_kb_pow in 1u32..5,          // 2, 4, 8 or 16 KB tiles
        with_fabric in any::<bool>(),
        intermediates in 0usize..3,
        backing_sel in 0usize..3,
        fabric_seed in any::<u64>(),
        with_label in any::<bool>(),
    ) {
        let mut builder = HierarchySpec::builder();
        if with_label {
            builder = builder.label(format!("custom-{levels}-{backing_sel}"));
        }
        if with_fabric {
            let mut fabric = LNucaConfig::paper(levels).expect("levels in range");
            fabric.tile_size_bytes = (1u64 << tile_kb_pow) * 1024;
            fabric.seed = fabric_seed;
            builder = builder.fabric(fabric);
        }
        for i in 0..intermediates {
            let cache = CacheConfig::builder(format!("MID{i}"))
                .size_bytes((256 * 1024) << i)
                .ways(8)
                .block_size(64)
                .completion_cycles(4 + i as u64)
                .initiation_interval(2)
                .build()
                .expect("intermediate caches are valid");
            builder = builder.intermediate(
                IntermediateSpec::new(cache).with_transfers(i as u64, 2 * i as u64),
            );
        }
        builder = match backing_sel {
            0 => builder.backing_cache(configs::paper_l3()),
            1 => builder.backing_dnuca(DNucaConfig::paper()),
            _ => builder.backing(BackingSpec::Memory),
        };
        let spec = builder.build().expect("composed specs are valid");

        // spec → Value → spec is the identity.
        let value = spec_to_value(&spec);
        let back = spec_from_value("$", &value).expect("canonical values parse");
        prop_assert_eq!(&back, &spec);

        // And through the actual text form (parser + printer), too.
        let text = value.to_pretty();
        let reparsed = json::parse(&text).expect("canonical text parses");
        let back2 = spec_from_value("$", &reparsed).expect("reparsed values parse");
        prop_assert_eq!(&back2, &spec);
    }
}
