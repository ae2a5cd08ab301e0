//! Pins every kernel's generated event stream directly.
//!
//! For each of the 30 registered workloads at `Tiny` and `Small`, the table
//! below records the event count and an FNV-1a hash over a canonical
//! per-event encoding. The hash covers events, not the packed store
//! payload, so a trace-format change leaves it alone while any change to
//! what a kernel (or the loop-nest DSL executor) emits breaks it.
//!
//! On a mismatch the test prints the full recomputed table; paste it over
//! `DIGESTS` only when a generation change is intended.

use cbws_trace::{Dependence, MemKind, TraceEvent};
use cbws_workloads::{Scale, ALL};

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Canonical encoding: a tag byte, then the fields little-endian.
fn encode(h: &mut Fnv, ev: &TraceEvent) {
    match *ev {
        TraceEvent::BlockBegin { id } => {
            h.bytes(&[0]);
            h.bytes(&id.0.to_le_bytes());
        }
        TraceEvent::BlockEnd { id } => {
            h.bytes(&[1]);
            h.bytes(&id.0.to_le_bytes());
        }
        TraceEvent::Alu { pc, count } => {
            h.bytes(&[2]);
            h.bytes(&pc.0.to_le_bytes());
            h.bytes(&count.to_le_bytes());
        }
        TraceEvent::Mem(m) => {
            h.bytes(&[3]);
            h.bytes(&m.pc.0.to_le_bytes());
            h.bytes(&m.addr.0.to_le_bytes());
            h.bytes(&[
                u8::from(m.kind == MemKind::Store),
                u8::from(m.dep == Dependence::PrevLoad),
            ]);
        }
        TraceEvent::Branch(b) => {
            h.bytes(&[4]);
            h.bytes(&b.pc.0.to_le_bytes());
            h.bytes(&[u8::from(b.taken)]);
        }
    }
}

/// `(workload, scale, events, fnv1a)`, generated before the DSL executor
/// was lowered.
const DIGESTS: &[(&str, &str, u64, u64)] = &[
    ("401.bzip2-source", "tiny", 1794, 0x06de1eb01a8bddbb),
    ("401.bzip2-source", "small", 16445, 0xa9084a6b5d93966b),
    ("histo-large", "tiny", 1274, 0x5e2f64ce6b2f83f7),
    ("histo-large", "small", 33474, 0xc2a924f5f658c80d),
    ("429.mcf-ref", "tiny", 873, 0xa4add6bf4d882e64),
    ("429.mcf-ref", "small", 21369, 0x5a81128a0a7ac1d0),
    ("lbm-long", "tiny", 998, 0xfa6156e02827dfc4),
    ("lbm-long", "small", 26472, 0x4bb6d2b89440f60e),
    ("mri-q-large", "tiny", 1300, 0x0c6b8e07f1f45052),
    ("mri-q-large", "small", 55302, 0xb64c76fa56994a46),
    ("stencil-default", "tiny", 773, 0x0db11f597931010a),
    ("stencil-default", "small", 30802, 0x0f3451478bafe8b2),
    ("fft-simlarge", "tiny", 1500, 0xbcc3ccdda1b0cfe5),
    ("fft-simlarge", "small", 98600, 0x50b676b08a0622f2),
    ("nw", "tiny", 1732, 0x53f29b384e128aba),
    ("nw", "small", 90744, 0x8102644ac6c75d0e),
    ("462.libquantum-ref", "tiny", 1182, 0x22a1e25ebb739ed1),
    ("462.libquantum-ref", "small", 35837, 0x2ba87c9af0e011c5),
    ("450.soplex-ref", "tiny", 1714, 0x4c1b1599105b3b74),
    ("450.soplex-ref", "small", 48257, 0x45adb914208b1ccc),
    ("lu-ncb-simlarge", "tiny", 805, 0xdadce553367223db),
    ("lu-ncb-simlarge", "small", 20930, 0x67dc382bbbb5ea31),
    ("radix-simlarge", "tiny", 3120, 0xab4c1077db2b13f9),
    ("radix-simlarge", "small", 88400, 0x4671f8c9b931fef9),
    ("433.milc-su3imp", "tiny", 1300, 0x6e8ef662fd1305cc),
    ("433.milc-su3imp", "small", 32000, 0x163a5d676d86a8f2),
    ("streamcluster-simlarge", "tiny", 1020, 0x0ff77d998ebf5104),
    ("streamcluster-simlarge", "small", 22950, 0xb03c117a44c33cf4),
    ("sgemm-medium", "tiny", 1543, 0xbe9ae8be65ea658e),
    ("sgemm-medium", "small", 92222, 0x5b02c1ab7bb9157a),
    ("458.sjeng-ref", "tiny", 672, 0xed94f5d97c659c4d),
    ("458.sjeng-ref", "small", 17196, 0x1b9e5ae71ff20551),
    ("471.omnetpp-omnetpp", "tiny", 819, 0x9662801ce2a520d6),
    ("471.omnetpp-omnetpp", "small", 19893, 0x014b4cb2515a9de7),
    ("bfs-1m", "tiny", 843, 0x2c7bf986d9dc43b9),
    ("bfs-1m", "small", 19797, 0x9a82f87462088de4),
    ("canneal-simlarge", "tiny", 580, 0x1502c76f4cca60a2),
    ("canneal-simlarge", "small", 13630, 0x84c7bc1e40d62db7),
    ("cholesky-tk29", "tiny", 1120, 0x9db726d5a12771bd),
    ("cholesky-tk29", "small", 29120, 0xa44e1e64a06311d5),
    ("freqmine-simlarge", "tiny", 715, 0x11899a52b84172b6),
    ("freqmine-simlarge", "small", 16900, 0x75b394afa854a5c6),
    ("md-linpack", "tiny", 1050, 0xe1199a2cf7534ee0),
    ("md-linpack", "small", 26040, 0x5b07008d45fd636c),
    ("mvx-linpack", "tiny", 1545, 0xb6e683db7dceb6d5),
    ("mvx-linpack", "small", 37059, 0x889d4646aaf8e009),
    ("mxm-linpack", "tiny", 1186, 0xf6908b2c1fa7770a),
    ("mxm-linpack", "small", 24878, 0xa648ae1846322c8a),
    ("ocean-cp-simlarge", "tiny", 1283, 0x90297402f07acca0),
    ("ocean-cp-simlarge", "small", 60530, 0x1617d924154e4f4a),
    ("sad-base-large", "tiny", 3104, 0x2b410ec2429cd585),
    ("sad-base-large", "small", 73720, 0x55a03a20b4e828ed),
    ("spmv-large", "tiny", 1140, 0xb333df698256f866),
    ("spmv-large", "small", 78660, 0x60363f365f158005),
    ("water-spatial-native", "tiny", 495, 0xa00c9ec126e9bfa4),
    ("water-spatial-native", "small", 12100, 0x74afea1ccf362aa7),
    ("backprop", "tiny", 770, 0x77f1c642bb2b6f6a),
    ("backprop", "small", 18003, 0x932be07abd30d679),
    ("srad-v1", "tiny", 1155, 0x88b7d34028774de0),
    ("srad-v1", "small", 54754, 0xb61424ef10a9184a),
];

#[test]
fn generated_event_streams_match_pinned_digests() {
    let mut got = Vec::new();
    for w in ALL {
        for scale in [Scale::Tiny, Scale::Small] {
            let trace = w.generate(scale);
            let mut h = Fnv::new();
            for ev in trace.iter() {
                encode(&mut h, ev);
            }
            got.push((w.name, scale.to_string(), trace.len() as u64, h.0));
        }
    }
    let table: String = got
        .iter()
        .map(|(n, s, len, h)| format!("    ({n:?}, {s:?}, {len}, 0x{h:016x}),\n"))
        .collect();
    let pinned: Vec<(&str, String, u64, u64)> = DIGESTS
        .iter()
        .map(|&(n, s, len, h)| (n, s.to_string(), len, h))
        .collect();
    assert!(
        got == pinned,
        "generated traces differ from the pinned digests; recomputed table:\n{table}"
    );
}
