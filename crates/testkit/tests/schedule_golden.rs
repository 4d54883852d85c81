//! Golden table of the static adversary schedules.
//!
//! Every row was generated on 4ce2302, the commit before the static and
//! the adaptive schedule became one type, and is committed unchanged. A
//! row is one seed and the first 16 bytes of the SHA-256 over its eight
//! cases: (48 devices, 3 committees) and (30, 2), at one and at four
//! windows, with the aggregator axis off and on. Each case is rendered as
//! `describe()` plus the full device, seat, net-fault, aggregator and
//! crash assignments. A failure means a seed's static schedule moved —
//! which device or seat is corrupt, which fault or crash it draws — not
//! that the table is stale.

use arboretum_crypto::sha256::sha256;
use arboretum_testkit::AdversarySchedule;

fn case(seed: u64, devices: usize, committees: usize, windows: usize, aggregator: bool) -> String {
    let s = AdversarySchedule::new(seed, devices, committees).with_windows(windows);
    let s = if aggregator {
        s.with_malicious_aggregator()
    } else {
        s
    };
    format!(
        "{}devices={:?}\nseats={:?}\nnet={:?}\naggregator={:?}\ncrash={:?}\n",
        s.describe(),
        s.device_behaviors,
        s.committee_behaviors,
        s.net_faults,
        s.aggregator,
        s.crash
    )
}

fn cases(seed: u64) -> String {
    let mut out = String::new();
    for (devices, committees) in [(48, 3), (30, 2)] {
        for windows in [1, 4] {
            for aggregator in [false, true] {
                out.push_str(&case(seed, devices, committees, windows, aggregator));
            }
        }
    }
    out
}

fn row(seed: u64) -> String {
    let digest = sha256(cases(seed).as_bytes());
    let hex: String = digest[..16].iter().map(|b| format!("{b:02x}")).collect();
    format!("{seed} {hex}")
}

const GOLDEN: &str = "
0 23b1b8ff2a1d03843c486ba9652dea40
1 10dec9aca929b2b83ab05ff5144f64ad
2 f69d8d56734316ad2cb7b62ad94bbb44
3 c95bb29ec5dab7d96463fda44dd2d0a0
4 9ec69b2f1dd531800697f0c29ed8100b
5 5defd6e6066a0910dc2ddd2eb27f77d5
6 1db65d6cb0e10b5cf695a2d8d7352f1e
7 3813a2c445ca46bdb6bee51eb533c15f
8 f90d28ecb532e0c7d76d6d658b57ef34
9 b247808a50d1d75042647900f54cd579
10 5101614e8c7f38c34a41879521325324
11 89edc7689c3e23843a0be71b069144e7
12 3f447dd0c9ca9ddaef594382e88bb1d2
13 2931951dcad7b848545b0b3c539f72cf
14 f567314acefd8c73c7293410a9ef8f34
15 68ea0b0dec08b9ca00cc1901c66f7729
16 940b4141382dcb9930b2f2ef1483d8d6
17 fd866a7035a68252bc82329ff0bcd00e
18 08e2de0e55db5aca0a06fd3ce45bc372
19 83e44c431f547081c4a59c0d49da4a46
20 3d59ad4392818837e0ec6fa4ded0315c
21 3683cbcb29264a602f41d1f7893c9348
22 03340d0d93e2abb89b76148239a96dea
23 baa614311795965fcca7e53d7424a523
24 266ae818ffe6181f0d53b6882496a1d1
25 566ab9b03417bf3f5549751bb96a0644
26 3847c57ce6f2923635d3f85213eb17da
27 4f21bf47060519e3fa78825f3cdeeb91
28 abef49e1a2ca63b524d4b17fbb5ff594
29 193fd0f2caae61eb3c58323fe904388d
30 b69463487a098729f46220b21cb2de7a
31 cc2000e1bb9748af09c095d04fc7f6d3
32 5945c3fd2d4b959a70ec5eeca86e29c5
33 4ecff2b2d53bd2d181aa44f7f09dc8a7
34 30141d35a5086d18a86d9114ff3a3e25
35 db941b252ef08b3b4874d824f21487c9
36 7c175a8cc749c74ce7d99cf1bc7eec8d
37 7a280cba1e83fe663d825ebfb819d995
38 be31bfa1f8c3434c7dfd18c6a0597f7c
39 7fa3cc3a7436d7b30c96e2923a30f914
40 c563b4cfddd0835ace096eb407eff08a
41 4e89690b1369b24682fb240d87b21bfb
42 d3bf470e6ee31b828358485e226c8bbc
43 2be245e8b457bba01080c3bc3b3d4105
44 2d38b689b7525259ef2de844dc833feb
45 e08a39198df3eaf6e2eb005aa90c15c2
46 4dd3e4acc68182dabc5e586990a6e340
47 5108c39e6f1bd8d0298763e5b12fab7e
48 d2e7a936bb9e14c7d0a333e3828139e6
49 9bc2d164d20713702871ab9235decbdf
50 8946314720fc8a9c69bee1335346bd04
51 ccec1cfb110ba0c8afb729650c4394e4
52 9ed2ee0ef93d1a84566d3f35e8c4740c
53 76f9b785bb1de8ed70c2ac129021170e
54 043c9b867ff582e68addbe0795499fbb
55 c951407ab746ef9ea97898ff201f354d
56 4a60244210b7a6be9c5a07a65d875bbe
57 b1a0b0fdea5740a08b7b32229d96613d
58 b27b55abe99d66356c1ee29975ddc13a
59 e0d2acd7843b67d4f1488c3bfc8c3533
60 27f8a62524fc5219ac063c1b6bb275c4
61 6802bf87c30588fafd51f6d8aff78b84
62 43410f99eed01da9c3dd9e23c8ce750a
63 86ace6f3cfe4b58c44672d3629d560eb
";

#[test]
fn static_schedules_are_the_parents() {
    let rows: Vec<String> = (0..64).map(row).collect();
    let expected: Vec<&str> = GOLDEN.trim().lines().collect();
    if let Some(seed) = (0..64).find(|&s| expected.get(s) != Some(&rows[s].as_str())) {
        panic!(
            "static schedules moved, first at seed {seed}:\n{}\nthe table they produce now:\n{}\n",
            cases(seed as u64),
            rows.join("\n")
        );
    }
    assert_eq!(expected.len(), rows.len(), "the table has extra rows");
}
