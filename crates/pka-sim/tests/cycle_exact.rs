//! Cycle-exact pins for the simulator's hot path.
//!
//! Every case hashes everything a run reports — cycles, instructions, each
//! IPC sample's bits, L1/L2 miss rates, DRAM utilisation, completed blocks
//! and the early-stop flag — and compares it against a digest recorded
//! from the reference engine. Any change to the engine that moves a single
//! cycle, sample or random draw fails here with the case named. (Only a
//! deliberate timing-model change may re-pin them; the failure message
//! prints every case's new digest in the table's own syntax.)

use pka_core::{PkpConfig, PkpMonitor};
use pka_gpu::{GpuConfig, KernelDescriptor, KernelPhase};
use pka_sim::{
    KernelSimResult, MaxCyclesMonitor, MaxInstructionsMonitor, NullMonitor, SimMonitor, SimOptions,
    Simulator,
};

/// FNV-1a over a stream of 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, f: f64) {
        self.word(f.to_bits());
    }
}

fn digest(r: &KernelSimResult) -> u64 {
    let mut d = Digest::new();
    d.word(r.cycles);
    d.word(r.instructions);
    d.word(r.instructions_total);
    d.float(r.warp_ipc);
    d.word(r.ipc_series.len() as u64);
    for s in &r.ipc_series {
        d.word(s.cycle);
        d.float(s.ipc);
        d.float(s.l2_miss_pct);
        d.float(s.dram_util_pct);
    }
    d.float(r.dram_util_pct);
    d.float(r.l2_miss_rate_pct);
    d.float(r.l1_miss_rate_pct);
    d.word(r.blocks_completed);
    d.word(r.blocks_total);
    d.word(r.early_stop as u64);
    d.0
}

fn tiny4() -> GpuConfig {
    GpuConfig::builder("tiny4")
        .num_sms(4)
        .build()
        .expect("valid config")
}

/// The kernel matrix: one kernel per engine path worth pinning.
fn kernels() -> Vec<KernelDescriptor> {
    let memory = KernelDescriptor::builder("memory_divergent")
        .grid_blocks(160)
        .block_threads(128)
        .fp32_per_thread(12)
        .global_loads_per_thread(40)
        .global_stores_per_thread(6)
        .global_atomics_per_thread(2)
        .local_loads_per_thread(2)
        .local_stores_per_thread(1)
        .l1_locality(0.15)
        .l2_locality(0.3)
        .working_set_bytes(64 << 20)
        .coalescing_sectors(9.4)
        .seed(11)
        .build();
    let compute = KernelDescriptor::builder("compute_bound")
        .grid_blocks(160)
        .block_threads(256)
        .fp32_per_thread(180)
        .fp64_per_thread(6)
        .int_per_thread(30)
        .sfu_per_thread(8)
        .tensor_per_thread(4)
        .global_loads_per_thread(3)
        .coalescing_sectors(4.0)
        .l1_locality(0.8)
        .seed(23)
        .build();
    let barrier = KernelDescriptor::builder("barrier_heavy")
        .grid_blocks(96)
        .block_threads(256)
        .fp32_per_thread(100)
        .shared_loads_per_thread(20)
        .shared_stores_per_thread(10)
        .global_loads_per_thread(4)
        .syncs_per_thread(16)
        .shared_mem_per_block(16 << 10)
        .seed(37)
        .build();
    let sub_warp = KernelDescriptor::builder("sub_warp")
        .grid_blocks(400)
        .block_threads(20)
        .fp32_per_thread(90)
        .global_loads_per_thread(5)
        .branches_per_thread(6)
        .coalescing_sectors(2.5)
        .seed(41)
        .build();
    let phased = KernelDescriptor::builder("phased")
        .grid_blocks(120)
        .block_threads(128)
        .fp32_per_thread(300)
        .global_loads_per_thread(40)
        .global_stores_per_thread(8)
        .coalescing_sectors(6.7)
        .l1_locality(0.4)
        .l2_locality(0.6)
        .working_set_bytes(8 << 20)
        .phases(vec![
            KernelPhase {
                fraction: 0.3,
                mem_scale: 2.5,
                compute_scale: 0.5,
            },
            KernelPhase {
                fraction: 0.4,
                mem_scale: 0.4,
                compute_scale: 1.5,
            },
            KernelPhase {
                fraction: 0.3,
                mem_scale: 1.2,
                compute_scale: 0.9,
            },
        ])
        .seed(53)
        .build();
    [memory, compute, barrier, sub_warp, phased]
        .into_iter()
        .map(|k| k.expect("valid kernel"))
        .collect()
}

#[derive(Clone, Copy, Debug)]
enum Stop {
    Never,
    Cycles(u64),
    Instructions(u64),
    Pkp,
}

fn run(sim: &Simulator, kernel: &KernelDescriptor, stop: Stop) -> KernelSimResult {
    let mut null = NullMonitor;
    let mut cycles;
    let mut insts;
    let mut pkp;
    let monitor: &mut dyn SimMonitor = match stop {
        Stop::Never => &mut null,
        Stop::Cycles(n) => {
            cycles = MaxCyclesMonitor::new(n);
            &mut cycles
        }
        Stop::Instructions(n) => {
            insts = MaxInstructionsMonitor::new(n);
            &mut insts
        }
        Stop::Pkp => {
            pkp = PkpMonitor::new(PkpConfig::default(), sim.options().sample_interval());
            &mut pkp
        }
    };
    sim.run_kernel_monitored(kernel, monitor)
        .expect("kernel simulates")
}

/// Every case as `(label, digest)`, in a fixed order.
fn case_digests() -> Vec<(String, u64)> {
    let configs = [("v100", GpuConfig::v100()), ("tiny4", tiny4())];
    let options = [
        ("default", SimOptions::default()),
        (
            "interval100",
            SimOptions::default().with_sample_interval(100).unwrap(),
        ),
        ("icnt", SimOptions::default().with_interconnect(true)),
    ];
    let stops = [
        Stop::Never,
        Stop::Cycles(1_500),
        Stop::Instructions(8_000),
        Stop::Pkp,
    ];
    let kernels = kernels();
    let mut out = Vec::new();
    for (gpu_name, gpu) in &configs {
        for (opt_name, opts) in &options {
            let sim = Simulator::new(gpu.clone(), *opts);
            for kernel in &kernels {
                for stop in stops {
                    let r = run(&sim, kernel, stop);
                    let label = format!("{gpu_name}/{opt_name}/{}/{stop:?}", kernel.name());
                    out.push((label, digest(&r)));
                }
            }
        }
    }
    out
}

/// Recorded from the reference engine; see the module docs.
const PINNED: &[(&str, u64)] = &[
    ("v100/default/memory_divergent/Never", 0xb7574a6c3b9338f1),
    (
        "v100/default/memory_divergent/Cycles(1500)",
        0x5a96ece041a5693e,
    ),
    (
        "v100/default/memory_divergent/Instructions(8000)",
        0x5a96ece041a5693e,
    ),
    ("v100/default/memory_divergent/Pkp", 0xb7574a6c3b9338f1),
    ("v100/default/compute_bound/Never", 0x77828da82af4c0ff),
    (
        "v100/default/compute_bound/Cycles(1500)",
        0x95308d4e32aa07ee,
    ),
    (
        "v100/default/compute_bound/Instructions(8000)",
        0x64601c37f51b345b,
    ),
    ("v100/default/compute_bound/Pkp", 0x86c23040fa229690),
    ("v100/default/barrier_heavy/Never", 0x0dec070059a3935e),
    (
        "v100/default/barrier_heavy/Cycles(1500)",
        0x59e76677840c85a6,
    ),
    (
        "v100/default/barrier_heavy/Instructions(8000)",
        0xc5efbb69dd84acc5,
    ),
    ("v100/default/barrier_heavy/Pkp", 0x05a5081c22399191),
    ("v100/default/sub_warp/Never", 0x4e89404732eed387),
    ("v100/default/sub_warp/Cycles(1500)", 0xc5ba73b7c631b047),
    (
        "v100/default/sub_warp/Instructions(8000)",
        0xf0991251a493f721,
    ),
    ("v100/default/sub_warp/Pkp", 0x4e89404732eed387),
    ("v100/default/phased/Never", 0x66256367da4510e7),
    ("v100/default/phased/Cycles(1500)", 0x9db01efa6645803d),
    ("v100/default/phased/Instructions(8000)", 0x2372dd272b6df2fd),
    ("v100/default/phased/Pkp", 0xcede2e165afe4e32),
    (
        "v100/interval100/memory_divergent/Never",
        0xc58bd5cba98f95df,
    ),
    (
        "v100/interval100/memory_divergent/Cycles(1500)",
        0x32fec4472c93749d,
    ),
    (
        "v100/interval100/memory_divergent/Instructions(8000)",
        0x32fec4472c93749d,
    ),
    ("v100/interval100/memory_divergent/Pkp", 0xc58bd5cba98f95df),
    ("v100/interval100/compute_bound/Never", 0xfc460a6e0934fe02),
    (
        "v100/interval100/compute_bound/Cycles(1500)",
        0x0c076db7c94b02fa,
    ),
    (
        "v100/interval100/compute_bound/Instructions(8000)",
        0xdfd7f697f9b7856b,
    ),
    ("v100/interval100/compute_bound/Pkp", 0x31297b6d23327ab0),
    ("v100/interval100/barrier_heavy/Never", 0x97820f494f8f88c1),
    (
        "v100/interval100/barrier_heavy/Cycles(1500)",
        0xe12893c9d781e621,
    ),
    (
        "v100/interval100/barrier_heavy/Instructions(8000)",
        0x7f663854c4777564,
    ),
    ("v100/interval100/barrier_heavy/Pkp", 0xaf2ee74a4e5c4c1c),
    ("v100/interval100/sub_warp/Never", 0x327d7a2bc77088b0),
    ("v100/interval100/sub_warp/Cycles(1500)", 0x4b180a78bcef8809),
    (
        "v100/interval100/sub_warp/Instructions(8000)",
        0x36361d208f9a9047,
    ),
    ("v100/interval100/sub_warp/Pkp", 0x327d7a2bc77088b0),
    ("v100/interval100/phased/Never", 0xbbbf322e561dcd80),
    ("v100/interval100/phased/Cycles(1500)", 0x92116642480cc045),
    (
        "v100/interval100/phased/Instructions(8000)",
        0xb473d04c7d23a03a,
    ),
    ("v100/interval100/phased/Pkp", 0x019d0fafd0c743b8),
    ("v100/icnt/memory_divergent/Never", 0xf2b1689187fc5dda),
    (
        "v100/icnt/memory_divergent/Cycles(1500)",
        0x5a96ece041a5693e,
    ),
    (
        "v100/icnt/memory_divergent/Instructions(8000)",
        0x5a96ece041a5693e,
    ),
    ("v100/icnt/memory_divergent/Pkp", 0xf2b1689187fc5dda),
    ("v100/icnt/compute_bound/Never", 0x51c48f5e9aa9b3e1),
    ("v100/icnt/compute_bound/Cycles(1500)", 0xdfa8a6f47a1f88fc),
    (
        "v100/icnt/compute_bound/Instructions(8000)",
        0x64601c37f51b345b,
    ),
    ("v100/icnt/compute_bound/Pkp", 0x9d01ffd309af711b),
    ("v100/icnt/barrier_heavy/Never", 0xfba808261da71bee),
    ("v100/icnt/barrier_heavy/Cycles(1500)", 0x39b3bd4c24d9f039),
    (
        "v100/icnt/barrier_heavy/Instructions(8000)",
        0xc5efbb69dd84acc5,
    ),
    ("v100/icnt/barrier_heavy/Pkp", 0x31864e4e2c524c92),
    ("v100/icnt/sub_warp/Never", 0x0fabc330fad3236b),
    ("v100/icnt/sub_warp/Cycles(1500)", 0x896a3d299683de87),
    ("v100/icnt/sub_warp/Instructions(8000)", 0xf0991251a493f721),
    ("v100/icnt/sub_warp/Pkp", 0x0fabc330fad3236b),
    ("v100/icnt/phased/Never", 0x726d8b8477e4f188),
    ("v100/icnt/phased/Cycles(1500)", 0x36b072df217f407a),
    ("v100/icnt/phased/Instructions(8000)", 0x0ae2ab04b748d747),
    ("v100/icnt/phased/Pkp", 0xae43007f3675f3f3),
    ("tiny4/default/memory_divergent/Never", 0x108eb85cb16e3f51),
    (
        "tiny4/default/memory_divergent/Cycles(1500)",
        0x5386685cb4bd31d5,
    ),
    (
        "tiny4/default/memory_divergent/Instructions(8000)",
        0x2d22624ffcfc43fc,
    ),
    ("tiny4/default/memory_divergent/Pkp", 0xad17f39fb2fb87e5),
    ("tiny4/default/compute_bound/Never", 0xc39bf25358a99cc3),
    (
        "tiny4/default/compute_bound/Cycles(1500)",
        0xe876d833fbc5888c,
    ),
    (
        "tiny4/default/compute_bound/Instructions(8000)",
        0x83c1032b49759796,
    ),
    ("tiny4/default/compute_bound/Pkp", 0xd79639c6e0224080),
    ("tiny4/default/barrier_heavy/Never", 0xc2150bf6ef2aee06),
    (
        "tiny4/default/barrier_heavy/Cycles(1500)",
        0xac096c203647a738,
    ),
    (
        "tiny4/default/barrier_heavy/Instructions(8000)",
        0x64e2210d091580f0,
    ),
    ("tiny4/default/barrier_heavy/Pkp", 0x5d2852b425f79bfd),
    ("tiny4/default/sub_warp/Never", 0x8b2cdc409db5d2e7),
    ("tiny4/default/sub_warp/Cycles(1500)", 0x6132016e10bc1d97),
    (
        "tiny4/default/sub_warp/Instructions(8000)",
        0x69e76a520808144d,
    ),
    ("tiny4/default/sub_warp/Pkp", 0x7d200fa3a64fe6a1),
    ("tiny4/default/phased/Never", 0x951c7966de244a61),
    ("tiny4/default/phased/Cycles(1500)", 0x95b59322b9f3dd63),
    (
        "tiny4/default/phased/Instructions(8000)",
        0x95b59322b9f3dd63,
    ),
    ("tiny4/default/phased/Pkp", 0x05d03e51595abc56),
    (
        "tiny4/interval100/memory_divergent/Never",
        0xf1db534f1d2e25a8,
    ),
    (
        "tiny4/interval100/memory_divergent/Cycles(1500)",
        0xdd830bc0cddc8ccb,
    ),
    (
        "tiny4/interval100/memory_divergent/Instructions(8000)",
        0x5a649447fbf250ac,
    ),
    ("tiny4/interval100/memory_divergent/Pkp", 0x09c4e40e8e02aa98),
    ("tiny4/interval100/compute_bound/Never", 0x8e31789ebaa09a45),
    (
        "tiny4/interval100/compute_bound/Cycles(1500)",
        0xde55e3550f0a7cf7,
    ),
    (
        "tiny4/interval100/compute_bound/Instructions(8000)",
        0x7c08383eb6bfa4d9,
    ),
    ("tiny4/interval100/compute_bound/Pkp", 0xd083ed5a5e816c71),
    ("tiny4/interval100/barrier_heavy/Never", 0x9883784be577207e),
    (
        "tiny4/interval100/barrier_heavy/Cycles(1500)",
        0x25d53e7e610ce6db,
    ),
    (
        "tiny4/interval100/barrier_heavy/Instructions(8000)",
        0x32bb235a74ebdc4e,
    ),
    ("tiny4/interval100/barrier_heavy/Pkp", 0xfa93145e56b557e0),
    ("tiny4/interval100/sub_warp/Never", 0x8cd43e6e4b63b014),
    (
        "tiny4/interval100/sub_warp/Cycles(1500)",
        0xa63f2ad57a1cda23,
    ),
    (
        "tiny4/interval100/sub_warp/Instructions(8000)",
        0xf44673e3354970bd,
    ),
    ("tiny4/interval100/sub_warp/Pkp", 0x35f72724b2e2f902),
    ("tiny4/interval100/phased/Never", 0x0d27c96f033618ad),
    ("tiny4/interval100/phased/Cycles(1500)", 0x07d46eacd6f5979e),
    (
        "tiny4/interval100/phased/Instructions(8000)",
        0xdf629acd3b115945,
    ),
    ("tiny4/interval100/phased/Pkp", 0xca4e2326b39c9778),
    ("tiny4/icnt/memory_divergent/Never", 0x225fe4134abb517b),
    (
        "tiny4/icnt/memory_divergent/Cycles(1500)",
        0x85a1f5389a8d752a,
    ),
    (
        "tiny4/icnt/memory_divergent/Instructions(8000)",
        0xd2d907a4f9840f8e,
    ),
    ("tiny4/icnt/memory_divergent/Pkp", 0xdeee74add2c87053),
    ("tiny4/icnt/compute_bound/Never", 0x861e1abc46e01ec8),
    ("tiny4/icnt/compute_bound/Cycles(1500)", 0xe876d833fbc5888c),
    (
        "tiny4/icnt/compute_bound/Instructions(8000)",
        0x83c1032b49759796,
    ),
    ("tiny4/icnt/compute_bound/Pkp", 0x63bd418ac1b17346),
    ("tiny4/icnt/barrier_heavy/Never", 0xbbce94c927c4ef9c),
    ("tiny4/icnt/barrier_heavy/Cycles(1500)", 0xac096c203647a738),
    (
        "tiny4/icnt/barrier_heavy/Instructions(8000)",
        0x64e2210d091580f0,
    ),
    ("tiny4/icnt/barrier_heavy/Pkp", 0x14933f7af6e57793),
    ("tiny4/icnt/sub_warp/Never", 0x62b15546f052312c),
    ("tiny4/icnt/sub_warp/Cycles(1500)", 0x6132016e10bc1d97),
    ("tiny4/icnt/sub_warp/Instructions(8000)", 0x69e76a520808144d),
    ("tiny4/icnt/sub_warp/Pkp", 0xdacc743003b58d2c),
    ("tiny4/icnt/phased/Never", 0x8309bba1c93c284d),
    ("tiny4/icnt/phased/Cycles(1500)", 0x0e95961619d6d582),
    ("tiny4/icnt/phased/Instructions(8000)", 0x0e95961619d6d582),
    ("tiny4/icnt/phased/Pkp", 0x137f72d0efab7800),
];

#[test]
fn every_case_matches_its_pinned_digest() {
    let got = case_digests();
    let labels: Vec<&str> = got.iter().map(|(label, _)| label.as_str()).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|&(label, _)| label).collect();
    assert_eq!(labels, pinned, "the case matrix changed");
    let drifted: Vec<&str> = got
        .iter()
        .zip(PINNED)
        .filter(|((_, d), (_, want))| d != want)
        .map(|((label, _), _)| label.as_str())
        .collect();
    let table: String = got
        .iter()
        .map(|(label, d)| format!("    (\"{label}\", 0x{d:016x}),\n"))
        .collect();
    assert!(
        drifted.is_empty(),
        "cycle drift in {drifted:?}; digests now:\n{table}"
    );
}

#[test]
fn the_matrix_reaches_every_stop_rule() {
    // The pins are only worth as much as the paths they cover: each stop
    // rule must actually fire on the kernel matrix, and full runs must not.
    let sim = Simulator::new(tiny4(), SimOptions::default());
    for kernel in kernels() {
        let full = run(&sim, &kernel, Stop::Never);
        assert!(!full.early_stop);
        assert_eq!(full.instructions, kernel.total_warp_instructions());
        assert!(run(&sim, &kernel, Stop::Cycles(1_500)).early_stop);
        assert!(run(&sim, &kernel, Stop::Instructions(8_000)).early_stop);
    }
    let stopped = kernels()
        .iter()
        .filter(|k| run(&sim, k, Stop::Pkp).early_stop)
        .count();
    assert!(stopped > 0, "PKP never stopped a kernel in the matrix");
}
